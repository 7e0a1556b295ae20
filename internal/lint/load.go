package lint

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
)

// Package is one loaded, type-checked package: the unit an Analyzer runs on.
// Only the package's own non-test sources are parsed; imports (including the
// module's other packages) are resolved through compiler export data, so a
// whole-repo load costs one `go list -export` plus a type-check of each
// analyzed package's own files.
type Package struct {
	// ImportPath is the package's import path ("vmmk/internal/trace").
	ImportPath string
	// Dir is the directory holding the package's sources.
	Dir string
	// GoFiles are the non-test source file names the package built from.
	GoFiles []string
	// Fset maps positions for Files (shared across one Load).
	Fset *token.FileSet
	// Files are the parsed sources, comments included.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info records the type-checker's facts about every expression.
	Info *types.Info
}

// listPackage is the subset of `go list -json` output the loader consumes.
type listPackage struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	Standard   bool
	DepOnly    bool
	Error      *struct{ Err string }
}

// listFields names the -json fields requested from `go list`; asking for a
// fixed set keeps the output small and the contract explicit.
const listFields = "ImportPath,Dir,Export,GoFiles,Standard,DepOnly,Error"

// goList runs `go list -deps -export -json` in dir over the given patterns
// and returns the decoded package stream.
func goList(dir string, patterns []string) ([]*listPackage, error) {
	args := append([]string{"list", "-deps", "-export", "-json=" + listFields}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.String())
	}
	var pkgs []*listPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		p := new(listPackage)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list %v: decoding output: %v", patterns, err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// exportLookup builds the importer lookup function over the export data
// files `go list -export` reported.
func exportLookup(pkgs []*listPackage) func(string) (io.ReadCloser, error) {
	exports := make(map[string]string, len(pkgs))
	for _, p := range pkgs {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	return func(path string) (io.ReadCloser, error) {
		e, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(e)
	}
}

// newInfo returns a types.Info with every fact map analyzers consume.
func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
}

// parseFiles parses the named files of dir, comments included.
func parseFiles(fset *token.FileSet, dir string, goFiles []string) ([]*ast.File, error) {
	files := make([]*ast.File, 0, len(goFiles))
	for _, name := range goFiles {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// checkFiles type-checks one package's parsed files against imp.
func checkFiles(fset *token.FileSet, imp types.Importer, importPath, dir string, goFiles []string, files []*ast.File) (*Package, error) {
	info := newInfo()
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(importPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", importPath, err)
	}
	return &Package{
		ImportPath: importPath,
		Dir:        dir,
		GoFiles:    goFiles,
		Fset:       fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
	}, nil
}

// Load resolves the patterns with `go list` in dir (the module root) and
// returns every matched package parsed and type-checked, dependencies
// resolved through export data. Test files are not loaded: the invariants
// the analyzers guard are about simulator code, and tests legitimately use
// wall-clock timeouts and ad-hoc iteration.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	for _, p := range listed {
		if p.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
		}
	}
	lookup := exportLookup(listed)
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", lookup)
	var out []*Package
	for _, p := range listed {
		if p.DepOnly || p.Standard || len(p.GoFiles) == 0 {
			continue
		}
		files, err := parseFiles(fset, p.Dir, p.GoFiles)
		if err != nil {
			return nil, err
		}
		pkg, err := checkFiles(fset, imp, p.ImportPath, p.Dir, p.GoFiles, files)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ImportPath < out[j].ImportPath })
	return out, nil
}

// LoadDir parses and type-checks the single package rooted at dir, resolving
// its imports against the module at moduleRoot. This is the fixture loader:
// dir may live under a testdata tree the go tool refuses to list, while its
// imports (standard library or module packages) still resolve through export
// data. The synthetic import path is "fixture/" plus the directory base.
func LoadDir(moduleRoot, dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var goFiles []string
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".go" {
			goFiles = append(goFiles, e.Name())
		}
	}
	if len(goFiles) == 0 {
		return nil, fmt.Errorf("no .go files in %s", dir)
	}
	sort.Strings(goFiles)

	// Parse first to discover the imports the fixture needs, then ask the
	// go tool for their export data (std and module packages alike).
	fset := token.NewFileSet()
	files, err := parseFiles(fset, dir, goFiles)
	if err != nil {
		return nil, err
	}
	imports := map[string]bool{}
	for _, f := range files {
		for _, spec := range f.Imports {
			path, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				return nil, err
			}
			imports[path] = true
		}
	}
	patterns := make([]string, 0, len(imports))
	for path := range imports {
		patterns = append(patterns, path)
	}
	sort.Strings(patterns)
	var listed []*listPackage
	if len(patterns) > 0 {
		if listed, err = goList(moduleRoot, patterns); err != nil {
			return nil, err
		}
	}
	imp := importer.ForCompiler(fset, "gc", exportLookup(listed))
	return checkFiles(fset, imp, "fixture/"+filepath.Base(dir), dir, goFiles, files)
}
