package reach

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// pkg is one type-checked package of the program: its non-test files only.
type pkg struct {
	path    string
	files   []*ast.File
	imports []string
	root    bool // cmd/, examples/, the module's root package or bench/
	bench   bool
	types   *types.Package
	info    *types.Info
}

// program is a module plus its bench/ module, type-checked from source.
type program struct {
	module string
	fset   *token.FileSet
	pkgs   map[string]*pkg
	std    types.Importer // export data of the standard library
}

// dispatched lists the interfaces the standard library calls methods
// through on values the program hands it. A reached type that implements
// one has that interface's methods reached.
var dispatched = []struct{ path, name string }{
	{"fmt", "Stringer"}, {"fmt", "GoStringer"}, {"fmt", "Formatter"},
	{"net/http", "Handler"}, {"sort", "Interface"}, {"container/heap", "Interface"},
	{"encoding/json", "Marshaler"}, {"encoding/json", "Unmarshaler"},
	{"encoding", "TextMarshaler"}, {"encoding", "TextUnmarshaler"},
	{"io", "Reader"}, {"io", "Writer"}, {"io", "Closer"}, {"io", "WriterTo"}, {"io", "ReaderFrom"},
	{"flag", "Value"},
}

// load parses and type-checks the module rooted at root and, when root
// holds one, its bench/ module (whose imports of the module resolve to the
// same packages).
func load(root string) (*program, error) {
	mod, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	p := &program{module: mod, fset: token.NewFileSet(), pkgs: map[string]*pkg{}}
	if err := p.walk(root, mod, false); err != nil {
		return nil, err
	}
	if _, err := os.Stat(filepath.Join(root, "bench")); err == nil {
		if err := p.walk(filepath.Join(root, "bench"), mod+"/bench", true); err != nil {
			return nil, err
		}
	}
	if err := p.openStd(root); err != nil {
		return nil, err
	}
	paths := make([]string, 0, len(p.pkgs))
	for path := range p.pkgs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if _, err := p.check(path); err != nil {
			return nil, err
		}
	}
	return p, nil
}

func modulePath(gomod string) (string, error) {
	b, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) == 2 && f[0] == "module" {
			return f[1], nil
		}
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}

// walk parses every package under dir as path/..., skipping testdata,
// hidden directories and nested modules.
func (p *program) walk(dir, path string, bench bool) error {
	return filepath.WalkDir(dir, func(d string, e fs.DirEntry, err error) error {
		if err != nil || !e.IsDir() {
			return err
		}
		if d != dir {
			name := e.Name()
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		bp, err := build.Default.ImportDir(d, 0)
		if _, ok := err.(*build.NoGoError); ok || (err == nil && len(bp.GoFiles) == 0) {
			return nil
		}
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, d)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		pk := &pkg{path: path, imports: bp.Imports, bench: bench}
		if rel != "." {
			pk.path += "/" + rel
		}
		top := strings.SplitN(rel, "/", 2)[0]
		pk.root = bench || rel == "." || top == "cmd" || top == "examples"
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(p.fset, filepath.Join(d, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			pk.files = append(pk.files, f)
		}
		p.pkgs[pk.path] = pk
		return nil
	})
}

// openStd locates the compiled export data of every standard-library
// package the program imports with one `go list -export` (served from the
// build cache; no network), and reads types from it instead of from source.
func (p *program) openStd(root string) error {
	want := map[string]bool{}
	for _, d := range dispatched {
		want[d.path] = true
	}
	for _, pk := range p.pkgs {
		for _, path := range pk.imports {
			if _, local := p.pkgs[path]; !local && path != "unsafe" {
				want[path] = true
			}
		}
	}
	args := []string{"list", "-export", "-f", "{{.ImportPath}} {{.Export}}"}
	for path := range want {
		args = append(args, path)
	}
	cmd := exec.Command("go", args...)
	cmd.Dir = root
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("go list -export: %w", err)
	}
	export := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if path, file, ok := strings.Cut(line, " "); ok && file != "" {
			export[path] = file
		}
	}
	p.std = importer.ForCompiler(p.fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := export[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	return nil
}

func (p *program) Import(path string) (*types.Package, error) { return p.check(path) }

// check type-checks one of the program's packages after its imports.
func (p *program) check(path string) (*types.Package, error) {
	pk, ok := p.pkgs[path]
	if !ok {
		return p.std.Import(path)
	}
	if pk.types != nil {
		return pk.types, nil
	}
	pk.info = &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: p}
	tp, err := conf.Check(path, p.fset, pk.files, pk.info)
	if err != nil {
		return nil, err
	}
	pk.types = tp
	return tp, nil
}
