// Package load type-checks this module's packages for sledlint without
// depending on golang.org/x/tools/go/packages.
//
// Package enumeration comes from `go list -json`; type checking is the
// standard library's go/types with a two-level importer: module-local
// import paths are parsed and checked recursively from source, and
// everything else (the standard library) is delegated to go/importer's
// source importer, which works offline from GOROOT. The module has no
// third-party dependencies, so those two levels cover every import.
package load

import (
	"bytes"
	"encoding/json"
	"errors"
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
	"regexp"
	"sort"
	"strings"
)

// Package is one type-checked package ready for analysis.
type Package struct {
	Path  string // import path ("sleds/internal/vfs")
	Dir   string // absolute directory
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	// Test marks a package that includes _test.go files: either the
	// in-package augmentation (same Path, test files merged in) or the
	// external test package (Path carries a "_test" suffix). Test
	// variants are never what other packages import — the importer
	// cache keeps the pristine build for that.
	Test bool
}

// listed mirrors the subset of `go list -json` output we consume.
type listed struct {
	ImportPath   string
	Dir          string
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
}

// Packages loads and type-checks the packages matching the go-list
// patterns (typically "./..."), evaluated from dir, test files included:
// a package's in-package _test.go files are merged into its file list,
// and an external test package ("package foo_test") loads as its own
// Package with the import path "<path>_test". The pristine non-test
// build still backs every import edge, so test files never change what
// dependent packages type-check against.
func Packages(dir string, patterns ...string) ([]*Package, *token.FileSet, error) {
	if dir == "" {
		wd, err := os.Getwd()
		if err != nil {
			return nil, nil, err
		}
		dir = wd
	}
	fset := token.NewFileSet()
	imp, err := newImporter(fset, dir)
	if err != nil {
		return nil, nil, err
	}
	args := append([]string{"list", "-json", "--"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	var pkgs []*Package
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var l listed
		if err := dec.Decode(&l); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return nil, nil, fmt.Errorf("go list -json: %v", err)
		}
		if len(l.GoFiles) > 0 {
			p, err := imp.loadDir(l.Dir, l.ImportPath)
			if err != nil {
				return nil, nil, err
			}
			if len(l.TestGoFiles) > 0 {
				// Re-check the package with its in-package test files.
				// The importer cache deliberately keeps the pristine
				// build; the augmented variant exists only for analysis.
				aug, err := imp.checkFiles(l.Dir, l.ImportPath, append(append([]string{}, l.GoFiles...), l.TestGoFiles...))
				if err != nil {
					return nil, nil, err
				}
				aug.Test = true
				p = aug
			}
			pkgs = append(pkgs, p)
		}
		if len(l.XTestGoFiles) > 0 {
			xp, err := imp.checkFiles(l.Dir, l.ImportPath+"_test", l.XTestGoFiles)
			if err != nil {
				return nil, nil, err
			}
			xp.Test = true
			pkgs = append(pkgs, xp)
		}
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, fset, nil
}

// Dir loads a single directory as the given import path. The lint
// test harness uses it to check testdata packages under synthetic
// paths (analyzer scoping keys off the import path).
func Dir(dir, importPath string) (*Package, *token.FileSet, error) {
	fset := token.NewFileSet()
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, nil, err
	}
	imp, err := newImporter(fset, abs)
	if err != nil {
		return nil, nil, err
	}
	p, err := imp.loadDir(abs, importPath)
	if err != nil {
		return nil, nil, err
	}
	return p, fset, nil
}

// moduleImporter resolves module-local imports from source and
// delegates the rest to the stdlib source importer.
type moduleImporter struct {
	fset       *token.FileSet
	root       string // module root directory
	modulePath string // module path from go.mod
	std        types.ImporterFrom
	cache      map[string]*Package
	loading    map[string]bool // import-cycle guard
}

func newImporter(fset *token.FileSet, dir string) (*moduleImporter, error) {
	root, modulePath, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	return &moduleImporter{
		fset:       fset,
		root:       root,
		modulePath: modulePath,
		std:        importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		cache:      make(map[string]*Package),
		loading:    make(map[string]bool),
	}, nil
}

var moduleRe = regexp.MustCompile(`(?m)^module\s+(\S+)`)

// findModule walks up from dir to the enclosing go.mod and returns the
// module root and module path.
func findModule(dir string) (root, modulePath string, err error) {
	for d := dir; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			m := moduleRe.FindSubmatch(data)
			if m == nil {
				return "", "", fmt.Errorf("load: no module line in %s/go.mod", d)
			}
			return d, string(m[1]), nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("load: no go.mod above %s", dir)
		}
		d = parent
	}
}

// Import implements types.Importer.
func (im *moduleImporter) Import(path string) (*types.Package, error) {
	return im.ImportFrom(path, im.root, 0)
}

// ImportFrom implements types.ImporterFrom.
func (im *moduleImporter) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	if path == im.modulePath || strings.HasPrefix(path, im.modulePath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, im.modulePath), "/")
		p, err := im.loadDir(filepath.Join(im.root, filepath.FromSlash(rel)), path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return im.std.ImportFrom(path, srcDir, mode)
}

// loadDir parses and type-checks the non-test Go files of one
// directory under the given import path.
func (im *moduleImporter) loadDir(dir, path string) (*Package, error) {
	if p, ok := im.cache[path]; ok {
		return p, nil
	}
	if im.loading[path] {
		return nil, fmt.Errorf("load: import cycle through %s", path)
	}
	im.loading[path] = true
	defer delete(im.loading, path)

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("load %s: %v", path, err)
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") ||
			strings.HasPrefix(name, "_") || strings.HasPrefix(name, ".") {
			continue
		}
		names = append(names, name)
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("load %s: no Go files in %s", path, dir)
	}
	p, err := im.checkFiles(dir, path, names)
	if err != nil {
		return nil, err
	}
	im.cache[path] = p
	return p, nil
}

// checkFiles parses and type-checks the named files of dir as one
// package under the given import path, resolving its module-local
// imports through the importer cache. It does not cache the result:
// loadDir owns the cache for pristine builds, while test-augmented
// variants stay out of it.
func (im *moduleImporter) checkFiles(dir, path string, names []string) (*Package, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(im.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("load %s: %v", path, err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: im}
	tpkg, err := conf.Check(path, im.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %v", path, err)
	}
	return &Package{Path: path, Dir: dir, Files: files, Types: tpkg, Info: info}, nil
}
