package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// A Package is one loaded, type-checked analysis unit.
type Package struct {
	PkgPath string
	Dir     string
	Fset    *token.FileSet
	Syntax  []*ast.File
	Types   *types.Package
	Info    *types.Info
	// TypeErrors collects type-checker complaints; analyzers still run
	// on partially-checked packages, but the driver surfaces these.
	TypeErrors []error
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath   string
	Dir          string
	Export       string
	Name         string
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
	Standard     bool
	DepOnly      bool
	ForTest      string
	Error        *struct{ Err string }
}

// Load enumerates the packages matching patterns (from dir, typically
// the module root) with `go list -export`, then parses and type-checks
// each matched package from source, resolving imports against the
// compiler's export data. This is a stdlib-only, offline substitute for
// golang.org/x/tools/go/packages: the toolchain compiles dependencies
// into the build cache and hands us their export files, so no network
// and no external module are ever needed.
//
// With includeTests, in-package _test.go files are type-checked
// together with the package (mirroring the compiler's test build) and
// external _test packages load as separate units.
func Load(dir string, includeTests bool, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := []string{"list", "-e", "-export", "-deps"}
	if includeTests {
		args = append(args, "-test")
	}
	args = append(args,
		"-json=ImportPath,Dir,Export,Name,GoFiles,TestGoFiles,XTestGoFiles,Standard,DepOnly,ForTest,Error")
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}

	exports := make(map[string]string)  // import path -> export data file
	fallback := make(map[string]string) // test-variant exports, used if no plain one
	var roots []listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %v", err)
		}
		if p.Error != nil && !p.Standard && !p.DepOnly {
			return nil, fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		path := p.ImportPath
		if i := strings.IndexByte(path, ' '); i >= 0 { // "p [q.test]" variant
			if p.Export != "" {
				fallback[path[:i]] = p.Export
			}
			continue
		}
		if p.Export != "" {
			exports[path] = p.Export
		}
		if p.Standard || p.DepOnly || p.Name == "" || strings.HasSuffix(path, ".test") {
			continue
		}
		roots = append(roots, p)
	}
	for path, exp := range fallback {
		if _, ok := exports[path]; !ok {
			exports[path] = exp
		}
	}

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})

	var pkgs []*Package
	for _, p := range roots {
		files := append([]string(nil), p.GoFiles...)
		if includeTests {
			files = append(files, p.TestGoFiles...)
		}
		pkg, err := checkFiles(fset, imp, p.Dir, p.ImportPath, files)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
		if includeTests && len(p.XTestGoFiles) > 0 {
			xpkg, err := checkFiles(fset, imp, p.Dir, p.ImportPath+"_test", p.XTestGoFiles)
			if err != nil {
				return nil, err
			}
			pkgs = append(pkgs, xpkg)
		}
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].PkgPath < pkgs[j].PkgPath })
	return pkgs, nil
}

// LoadDir loads a single directory of Go files as one package — the
// fixture path used by the analysistest harness and nocvet's -dir mode.
// The files may import standard-library and module packages; asPath
// becomes the unit's package path, letting fixtures impersonate an
// enforced package (e.g. "repro/internal/search/fixture") so
// path-scoped analyzers fire on them.
func LoadDir(dir, asPath string) (*Package, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			files = append(files, e.Name())
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	sort.Strings(files)
	if asPath == "" {
		asPath = filepath.Base(dir)
	}

	fset := token.NewFileSet()
	var syntax []*ast.File
	imports := make(map[string]bool)
	for _, name := range files {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		syntax = append(syntax, f)
		for _, spec := range f.Imports {
			if p, err := strconv.Unquote(spec.Path.Value); err == nil {
				imports[p] = true
			}
		}
	}

	exports := make(map[string]string)
	if len(imports) > 0 {
		args := []string{"list", "-e", "-export", "-deps", "-json=ImportPath,Export"}
		for p := range imports {
			args = append(args, p)
		}
		sort.Strings(args[5:])
		cmd := exec.Command("go", args...)
		cmd.Dir = dir
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("go list (fixture imports): %v\n%s", err, stderr.String())
		}
		dec := json.NewDecoder(bytes.NewReader(out))
		for {
			var p struct{ ImportPath, Export string }
			if err := dec.Decode(&p); err == io.EOF {
				break
			} else if err != nil {
				return nil, err
			}
			if p.Export != "" {
				exports[p.ImportPath] = p.Export
			}
		}
	}
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})
	return typeCheck(fset, imp, asPath, syntax)
}

func checkFiles(fset *token.FileSet, imp types.Importer, dir, pkgPath string, files []string) (*Package, error) {
	var syntax []*ast.File
	for _, name := range files {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		syntax = append(syntax, f)
	}
	pkg, err := typeCheck(fset, imp, pkgPath, syntax)
	if err != nil {
		return nil, err
	}
	pkg.Dir = dir
	return pkg, nil
}

func typeCheck(fset *token.FileSet, imp types.Importer, pkgPath string, syntax []*ast.File) (*Package, error) {
	pkg := &Package{PkgPath: pkgPath, Fset: fset, Syntax: syntax}
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	pkg.Info = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	// Check never returns a hard error here: complaints are collected
	// through conf.Error so analyzers can still run on what checked.
	pkg.Types, _ = conf.Check(pkgPath, fset, syntax, pkg.Info)
	return pkg, nil
}
