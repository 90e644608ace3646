package cdrw_test

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestUnreachedDeclarations type-checks every package of the module and of
// perfbench (the benchmark driver, its own module) and follows identifier
// uses between top-level declarations. Its roots are every declaration of
// cmd/*, examples/*, perfbench and internal/experiments, every declaration
// in api.go and every init function. A method of a reached type also counts
// as reached when the type satisfies an interface the program uses: one of
// its reached interfaces, an interface declared by an imported standard
// package, or one that errors.Is and errors.As assert.
//
// It fails on every production declaration the roots do not reach. One that
// nothing reaches is dead: delete it. One that only _test.go files reach
// (directly or through other test-only code) is a reference kernel, oracle
// or helper: it belongs in the test files of the package whose tests use
// it, so that production holds one implementation of each kernel. The one
// exemption is an exported method of a type api.go aliases: public-API
// users can call it, so a test-only one is logged, not failed.
func TestUnreachedDeclarations(t *testing.T) {
	p := loadProgram(t)
	var roots, testUses, all []*declNode
	for _, d := range p.decls {
		all = append(all, d)
		if d.root {
			roots = append(roots, d)
		}
		if d.testUse {
			testUses = append(testUses, d)
		}
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i].pos, all[j].pos
		return a.Filename < b.Filename || a.Filename == b.Filename && a.Offset < b.Offset
	})
	reached, tested := p.closure(roots), p.closure(testUses)
	var public, publicLines int
	for _, d := range all {
		switch {
		case reached[d]:
		case tested[d] && d.public:
			public++
			publicLines += d.lines
			t.Logf("test-only %s: %s (%d lines), public API", d.pos, d.name, d.lines)
		case tested[d]:
			t.Errorf("test-only %s: %s (%d lines) is reached only by _test.go files; move it into the tests that use it", d.pos, d.name, d.lines)
		default:
			t.Errorf("unused %s: %s (%d lines) is reached by no root and no _test.go file; delete it", d.pos, d.name, d.lines)
		}
	}
	t.Logf("%d declarations, %d reached from the roots, %d test-only public methods (%d lines)",
		len(all), len(reached), public, publicLines)
}

// TestPackageLayers checks the module's production imports against the
// layer table of docs/ARCHITECTURE.md: every package of the module and of
// perfbench has a row, every import inside the module points to a strictly
// lower layer, and every row names a package that exists. Test files are
// not checked: a test may import what its package may not.
func TestPackageLayers(t *testing.T) {
	p := loadPackages(t)
	layers := readLayers(t, filepath.Join("docs", "ARCHITECTURE.md"))
	used := map[string]bool{}
	layerOf := func(ip string) (int, bool) {
		for name, layer := range layers {
			if ip == name || strings.HasSuffix(name, "/*") && strings.HasPrefix(ip, strings.TrimSuffix(name, "*")) {
				used[name] = true
				return layer, true
			}
		}
		return 0, false
	}
	paths := make([]string, 0, len(p.pkgs))
	for ip := range p.pkgs {
		paths = append(paths, ip)
	}
	sort.Strings(paths)
	for _, ip := range paths {
		from, ok := layerOf(ip)
		if !ok {
			t.Errorf("%s has no row in ARCHITECTURE.md's layer table", ip)
			continue
		}
		for _, dep := range p.prod[ip].Imports() {
			if p.pkgs[dep.Path()] == nil {
				continue
			}
			if to, ok := layerOf(dep.Path()); ok && to >= from {
				t.Errorf("%s (layer %d) imports %s (layer %d); imports must point to a strictly lower layer", ip, from, dep.Path(), to)
			}
		}
	}
	for name, layer := range layers {
		if !used[name] {
			t.Errorf("ARCHITECTURE.md's layer %d names %s, which matches no package", layer, name)
		}
	}
}

// readLayers parses the table under the "### Layers" heading of the
// markdown file at path, rows of the form "| 2 | `cdrw/internal/x`, … |",
// into the layer of each import path it lists; a trailing /* matches every
// package below a directory.
func readLayers(t *testing.T, path string) map[string]int {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(data), "\n### Layers\n")
	if !ok {
		t.Fatalf("%s has no \"### Layers\" section", path)
	}
	row := regexp.MustCompile(`^\| *([0-9]+) *\|(.*)\|$`)
	name := regexp.MustCompile("`([^`]+)`")
	layers := map[string]int{}
	for _, line := range strings.Split(section, "\n") {
		if strings.HasPrefix(line, "#") {
			break
		}
		m := row.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		layer, _ := strconv.Atoi(m[1])
		for _, n := range name.FindAllStringSubmatch(m[2], -1) {
			if _, dup := layers[n[1]]; dup {
				t.Errorf("%s: %s is on two layers", path, n[1])
			}
			layers[n[1]] = layer
		}
	}
	if len(layers) == 0 {
		t.Fatalf("%s: the Layers section has no table rows", path)
	}
	return layers
}

// declNode is one top-level declaration of a production file: a function, a
// method, or one name of a type, var or const spec.
type declNode struct {
	name    string         // package-qualified, methods as pkg.Type.Method
	pos     token.Position // of the declared name, relative to the module root
	lines   int            // including its doc comment
	root    bool
	public  bool        // an exported method of a type api.go aliases
	testUse bool        // some _test.go file names it
	uses    []*declNode // declarations its syntax names
	typ     *types.TypeName
	syntax  ast.Node    // the subtree whose identifier uses are its edges
	info    *types.Info // resolves those identifiers
}

// satisfier records that reached type typ makes method reachable through
// iface (nil: an interface of the standard library or the universe).
type satisfier struct {
	typ, iface, method *declNode
}

type srcPackage struct {
	path               string
	files, tests, xtst []*ast.File
	info               *types.Info // uses and defs of the production files
}

type program struct {
	fset   *token.FileSet
	std    types.Importer
	pkgs   map[string]*srcPackage
	prod   map[string]*types.Package
	decls  map[token.Pos]*declNode
	ifaces map[*types.TypeName]*declNode // the module's interface types
	sats   []satisfier
}

// rootPackage reports whether every declaration of the package at import
// path p is a root.
func rootPackage(p string) bool {
	return strings.HasPrefix(p, "cdrw/cmd/") || strings.HasPrefix(p, "cdrw/examples/") ||
		p == "cdrw/perfbench" || p == "cdrw/internal/experiments"
}

// loadPackages parses every package of the module and of perfbench and
// type-checks their production files.
func loadPackages(t *testing.T) *program {
	t.Helper()
	fset := token.NewFileSet()
	p := &program{
		fset:   fset,
		std:    importer.ForCompiler(fset, "gc", nil),
		pkgs:   map[string]*srcPackage{},
		prod:   map[string]*types.Package{},
		decls:  map[token.Pos]*declNode{},
		ifaces: map[*types.TypeName]*declNode{},
	}
	parse := func(dir string, names []string) []*ast.File {
		var files []*ast.File
		for _, name := range names {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		return files
	}
	err := filepath.WalkDir(".", func(dir string, e fs.DirEntry, err error) error {
		if err != nil || !e.IsDir() {
			return err
		}
		if dir != "." && (e.Name() == "testdata" || strings.HasPrefix(e.Name(), ".") || strings.HasPrefix(e.Name(), "_")) {
			return filepath.SkipDir
		}
		bp, err := build.Default.ImportDir(dir, 0)
		if _, ok := err.(*build.NoGoError); ok {
			return nil
		} else if err != nil {
			return err
		}
		ip := path.Join("cdrw", filepath.ToSlash(dir))
		p.pkgs[ip] = &srcPackage{path: ip,
			files: parse(dir, bp.GoFiles), tests: parse(dir, bp.TestGoFiles), xtst: parse(dir, bp.XTestGoFiles)}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for ip := range p.pkgs {
		if _, err := p.Import(ip); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

// loadProgram type-checks the module's production files (loadPackages),
// then its test files, and builds the declaration graph.
func loadProgram(t *testing.T) *program {
	t.Helper()
	p := loadPackages(t)
	for _, src := range p.pkgs {
		p.declare(src)
	}
	for _, d := range p.decls {
		p.eachUse(d.syntax, d.info, func(u *declNode) {
			if u != d {
				d.uses = append(d.uses, u)
			}
		})
	}
	for _, src := range p.pkgs {
		if err := p.checkTests(src); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.satisfiers(); err != nil {
		t.Fatal(err)
	}
	p.markPublic()
	return p
}

// Import type-checks a module package from its production files (memoized)
// and leaves every other path to the standard library's export data.
func (p *program) Import(ip string) (*types.Package, error) {
	src, ok := p.pkgs[ip]
	if !ok {
		return p.std.Import(ip)
	}
	if pkg := p.prod[ip]; pkg != nil {
		return pkg, nil
	}
	src.info = &types.Info{Uses: map[*ast.Ident]types.Object{}, Defs: map[*ast.Ident]types.Object{}}
	pkg, err := (&types.Config{Importer: p}).Check(ip, p.fset, src.files, src.info)
	if err != nil {
		return nil, err
	}
	p.prod[ip] = pkg
	return pkg, nil
}

// declare adds a declNode for every top-level name of src's production
// files.
func (p *program) declare(src *srcPackage) {
	add := func(id *ast.Ident, name string, n ast.Node, doc *ast.CommentGroup, root bool) {
		if id.Name == "_" {
			return
		}
		start := n.Pos()
		if doc != nil {
			start = doc.Pos()
		}
		d := &declNode{name: path.Base(src.path) + "." + name, pos: p.fset.Position(id.Pos()), root: root,
			lines: p.fset.Position(n.End()).Line - p.fset.Position(start).Line + 1, syntax: n, info: src.info}
		if tn, ok := src.info.Defs[id].(*types.TypeName); ok {
			d.typ = tn
			if types.IsInterface(tn.Type()) {
				p.ifaces[tn] = d
			}
		}
		p.decls[id.Pos()] = d
	}
	for _, f := range src.files {
		root := rootPackage(src.path) || src.path == "cdrw" && filepath.Base(p.fset.Position(f.Pos()).Filename) == "api.go"
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				name := decl.Name.Name
				if decl.Recv != nil {
					name = recvName(decl.Recv.List[0].Type) + "." + name
				}
				add(decl.Name, name, decl, decl.Doc, root || decl.Recv == nil && name == "init")
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					n, doc := ast.Node(decl), decl.Doc
					if len(decl.Specs) > 1 {
						n, doc = spec, nil
					}
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						if spec.Doc != nil {
							doc = spec.Doc
						}
						add(spec.Name, spec.Name.Name, n, doc, root)
					case *ast.ValueSpec:
						if spec.Doc != nil {
							doc = spec.Doc
						}
						for _, id := range spec.Names {
							add(id, id.Name, n, doc, root)
						}
					}
				}
			}
		}
	}
}

// markPublic sets public on every exported method of a type that an alias
// declared in the root package's api.go names.
func (p *program) markPublic() {
	src := p.pkgs["cdrw"]
	aliased := map[*types.TypeName]bool{}
	for _, f := range src.files {
		if filepath.Base(p.fset.Position(f.Pos()).Filename) != "api.go" {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if spec, ok := n.(*ast.TypeSpec); ok && spec.Assign.IsValid() {
				if named, ok := types.Unalias(src.info.Defs[spec.Name].Type()).(*types.Named); ok {
					aliased[named.Obj()] = true
				}
			}
			return true
		})
	}
	for _, d := range p.decls {
		fd, ok := d.syntax.(*ast.FuncDecl)
		if !ok || fd.Recv == nil || !fd.Name.IsExported() {
			continue
		}
		recv := d.info.Defs[fd.Name].Type().(*types.Signature).Recv().Type()
		if ptr, ok := recv.(*types.Pointer); ok {
			recv = ptr.Elem()
		}
		if named, ok := recv.(*types.Named); ok {
			d.public = aliased[named.Origin().Obj()]
		}
	}
}

func recvName(x ast.Expr) string {
	switch x := x.(type) {
	case *ast.StarExpr:
		return recvName(x.X)
	case *ast.IndexExpr:
		return recvName(x.X)
	case *ast.IndexListExpr:
		return recvName(x.X)
	case *ast.Ident:
		return x.Name
	}
	return "?"
}

// node returns the declNode an object denotes, or nil when the object is
// not a top-level declaration of a module package. Every check of a file
// creates its own objects, but they keep their declaring positions, which
// is what node maps.
func (p *program) node(obj types.Object) *declNode {
	if obj == nil || obj.Pkg() == nil || p.pkgs[obj.Pkg().Path()] == nil {
		return nil
	}
	switch o := obj.(type) {
	case *types.Func:
		obj = o.Origin()
	case *types.Var:
		obj = o.Origin()
	}
	return p.decls[obj.Pos()]
}

// eachUse calls fn for every declNode an identifier under n denotes, as
// info resolves it.
func (p *program) eachUse(n ast.Node, info *types.Info, fn func(*declNode)) {
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if d := p.node(info.Uses[id]); d != nil {
				fn(d)
			}
		}
		return true
	})
}

// checkTests type-checks src's in-package tests together with its
// production files, then its external tests the way go test builds them:
// against that test variant of the package, so a name an in-package test
// file declares for the external tests (the export_test.go idiom) resolves.
// It marks every declaration a test file names.
func (p *program) checkTests(src *srcPackage) error {
	check := func(imp types.Importer, pkgPath string, files, tests []*ast.File) (*types.Package, error) {
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
		pkg, err := (&types.Config{Importer: imp}).Check(pkgPath, p.fset, append(files[:len(files):len(files)], tests...), info)
		if err != nil {
			return nil, err
		}
		for _, f := range tests {
			p.eachUse(f, info, func(d *declNode) { d.testUse = true })
		}
		return pkg, nil
	}
	var imp types.Importer = p
	if len(src.tests) > 0 {
		variant, err := check(p, src.path, src.files, src.tests)
		if err != nil {
			return err
		}
		imp = &testImporter{p: p, under: src.path, pkgs: map[string]*types.Package{src.path: variant}}
	}
	if len(src.xtst) == 0 {
		return nil
	}
	_, err := check(imp, src.path+"_test", nil, src.xtst)
	return err
}

// testImporter resolves the imports of a package's external tests the way
// go test links them: the package under test is its test variant (its
// production plus its in-package test files), every module package that
// imports it, directly or not, is re-checked against that variant, and
// every other path is the program's production package.
type testImporter struct {
	p     *program
	under string
	pkgs  map[string]*types.Package
}

func (ti *testImporter) Import(ip string) (*types.Package, error) {
	if pkg := ti.pkgs[ip]; pkg != nil {
		return pkg, nil
	}
	src := ti.p.pkgs[ip]
	if src == nil || !ti.p.imports(ip, ti.under) {
		return ti.p.Import(ip)
	}
	pkg, err := (&types.Config{Importer: ti}).Check(ip, ti.p.fset, src.files, nil)
	if err != nil {
		return nil, err
	}
	ti.pkgs[ip] = pkg
	return pkg, nil
}

// imports reports whether the module package at ip imports the one at
// under, directly or through other module packages.
func (p *program) imports(ip, under string) bool {
	for _, dep := range p.prod[ip].Imports() {
		if dep.Path() == under || p.pkgs[dep.Path()] != nil && p.imports(dep.Path(), under) {
			return true
		}
	}
	return false
}

// dynamicInterfaces are the interfaces errors.Is and errors.As assert
// inside their bodies, where export data does not show them.
const dynamicInterfaces = `package dynamic
type (
	unwrapper      interface{ Unwrap() error }
	multiUnwrapper interface{ Unwrap() []error }
	iser           interface{ Is(error) bool }
	aser           interface{ As(any) bool }
)`

// satisfiers lists, for every named type of the module, the methods that
// an interface it satisfies makes callable without naming them: through a
// standard-library interface always, through a module interface once that
// interface is reached.
func (p *program) satisfiers() error {
	f, err := parser.ParseFile(p.fset, "dynamic.go", dynamicInterfaces, 0)
	if err != nil {
		return err
	}
	dyn, err := (&types.Config{}).Check("dynamic", p.fset, []*ast.File{f}, nil)
	if err != nil {
		return err
	}
	std := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	var visit func(pkg *types.Package)
	visit = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		for _, imp := range pkg.Imports() {
			visit(imp)
		}
		if p.pkgs[pkg.Path()] != nil {
			return
		}
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok && types.IsInterface(tn.Type()) {
				std = append(std, tn.Type().Underlying().(*types.Interface))
			}
		}
	}
	visit(dyn)
	for _, pkg := range p.prod {
		visit(pkg)
	}

	for _, d := range p.decls {
		if d.typ == nil || types.IsInterface(d.typ.Type()) {
			continue
		}
		for _, typ := range []types.Type{d.typ.Type(), types.NewPointer(d.typ.Type())} {
			add := func(iface *types.Interface, via *declNode) {
				if iface.NumMethods() == 0 || !types.Implements(typ, iface) {
					return
				}
				for i := 0; i < iface.NumMethods(); i++ {
					m := iface.Method(i)
					obj, _, _ := types.LookupFieldOrMethod(typ, true, m.Pkg(), m.Name())
					if md := p.node(obj); md != nil {
						p.sats = append(p.sats, satisfier{typ: d, iface: via, method: md})
					}
				}
			}
			for _, iface := range std {
				add(iface, nil)
			}
			for tn, via := range p.ifaces {
				add(tn.Type().Underlying().(*types.Interface), via)
			}
		}
	}
	return nil
}

// closure returns every declaration reachable from seeds.
func (p *program) closure(seeds []*declNode) map[*declNode]bool {
	seen := map[*declNode]bool{}
	work := append([]*declNode{}, seeds...)
	for len(work) > 0 {
		for len(work) > 0 {
			d := work[len(work)-1]
			work = work[:len(work)-1]
			if !seen[d] {
				seen[d] = true
				work = append(work, d.uses...)
			}
		}
		for _, s := range p.sats {
			if seen[s.typ] && (s.iface == nil || seen[s.iface]) && !seen[s.method] {
				work = append(work, s.method)
			}
		}
	}
	return seen
}
