package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// knobAllowlist names the exported option fields that no non-test code sets
// yet, each with the reason it stays and the roadmap item that decides it.
// TestEveryKnobHasAWriter fails on an entry whose field is gone or has
// gained a writer, so the list only shrinks.
var knobAllowlist = map[string]string{
	"sim.Config.Window":                    "set only by defaulting and tests; ROADMAP item 33 unexports or deletes it",
	"sim.Config.Policy":                    "TargetReservationAware has no non-test caller; ROADMAP item 33 decides the policy",
	"sim.Config.ThinkTime":                 "set only by defaulting and tests; ROADMAP item 33",
	"sim.Config.MaxRetries":                "set only by defaulting and tests; ROADMAP item 33",
	"sim.Config.RetryBackoff":              "set only by defaulting and tests; ROADMAP item 33",
	"sim.Config.MoveDeadline":              "set only by defaulting and tests; ROADMAP item 33",
	"shardsvc.Config.Rebalance":            "the federation rebalancer runs only in tests; ROADMAP item 28",
	"shardsvc.RebalanceConfig.Interval":    "the federation rebalancer runs only in tests; ROADMAP item 28",
	"shardsvc.RebalanceConfig.SkewAbove":   "the federation rebalancer runs only in tests; ROADMAP item 28",
	"shardsvc.RebalanceConfig.SettleBelow": "the federation rebalancer runs only in tests; ROADMAP item 28",
	"shardsvc.RebalanceConfig.MaxMoves":    "the federation rebalancer runs only in tests; ROADMAP item 28",
	"shardsvc.Config.Tracer":               "it traces rebalance moves only, and the rebalancer runs only in tests; ROADMAP item 28",
	"sim.Config.IntervalSeconds":           "set only by defaulting; the request generator always runs at the paper's 30 s; ROADMAP item 33",
	"sim.ForecastConfig.Every":             "set only by defaulting and tests; every caller forecasts each interval; ROADMAP item 33",
}

// TestEveryKnobHasAWriter is a guard against options nobody turns: every
// exported field of core.QueuingFFD and of every struct type named *Config
// under internal/ must be written by non-test code in bench/, cmd/,
// examples/ or internal/ — or carry a knobAllowlist entry. A write is a
// keyed composite literal of the type, or an assignment to the field through
// a selector whose operand's type the scan can resolve; writes inside the
// type's own withDefaults (its defaulting) do not count. A field with a json
// tag is written by the decoder of the file it is read from.
func TestEveryKnobHasAWriter(t *testing.T) {
	m := loadModule(t)
	written := m.writes()
	var missing []string
	seen := map[string]bool{}
	for _, typ := range m.knobTypes() {
		for _, f := range m.structs[typ].fields {
			if !ast.IsExported(f.name) {
				continue
			}
			key := typ + "." + f.name
			seen[key] = true
			switch _, allowed := knobAllowlist[key]; {
			case written[key] && allowed:
				t.Errorf("%s has a writer now; delete its allowlist entry", key)
			case !written[key] && !allowed && !f.jsonTagged:
				missing = append(missing, key)
			}
		}
	}
	sort.Strings(missing)
	for _, key := range missing {
		t.Errorf("%s: no non-test code sets this option; give it a caller, delete it, or allowlist it with a reason", key)
	}
	for key := range knobAllowlist {
		if !seen[key] {
			t.Errorf("allowlist names %s, which is not an exported option field", key)
		}
	}
}

// module is the parsed non-test Go source: every struct type by qualified
// name ("pkg.Type"), every type alias, and the files whose writes count.
type module struct {
	structs map[string]*structInfo
	aliases map[string]string // "repro.QueuingFFD" → "core.QueuingFFD"
	files   []*srcFile
}

type structInfo struct {
	fields []fieldInfo
	types  map[string]string // field name → qualified type
}

type fieldInfo struct {
	name       string
	jsonTagged bool
}

type srcFile struct {
	pkg     string
	imports map[string]string // local name → package name
	ast     *ast.File
	scanned bool // under bench/, cmd/, examples/ or internal/
}

func loadModule(t *testing.T) *module {
	t.Helper()
	m := &module{structs: map[string]*structInfo{}, aliases: map[string]string{}}
	fset := token.NewFileSet()
	add := func(path string, scanned bool) {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		sf := &srcFile{pkg: f.Name.Name, imports: map[string]string{}, ast: f, scanned: scanned}
		if sf.pkg == "main" {
			sf.pkg = "main:" + filepath.Dir(path) // each command its own package
		}
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			name := path[strings.LastIndex(path, "/")+1:]
			local := name
			if imp.Name != nil {
				local = imp.Name.Name
			}
			sf.imports[local] = name
		}
		m.files = append(m.files, sf)
	}
	roots, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range roots {
		if !strings.HasSuffix(path, "_test.go") {
			add(path, false) // api.go's aliases resolve the examples' types
		}
	}
	for _, dir := range []string{"bench", "cmd", "examples", "internal"} {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
				add(path, true)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, sf := range m.files {
		for _, decl := range sf.ast.Decls {
			d, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range d.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				name := sf.pkg + "." + ts.Name.Name
				if ts.Assign.IsValid() {
					m.aliases[name] = sf.typeName(ts.Type)
					continue
				}
				if st, ok := ts.Type.(*ast.StructType); ok {
					m.structs[name] = sf.structInfo(st)
				}
			}
		}
	}
	return m
}

// knobTypes lists core.QueuingFFD and every internal/ struct named *Config.
func (m *module) knobTypes() []string {
	var out []string
	for name := range m.structs {
		if name == "core.QueuingFFD" || (!strings.HasPrefix(name, "main:") && strings.HasSuffix(name, "Config")) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

func (sf *srcFile) structInfo(st *ast.StructType) *structInfo {
	info := &structInfo{types: map[string]string{}}
	for _, field := range st.Fields.List {
		tagged := false
		if field.Tag != nil {
			tag, _ := strconv.Unquote(field.Tag.Value)
			json, ok := reflect.StructTag(tag).Lookup("json")
			tagged = ok && json != "-"
		}
		for _, n := range field.Names {
			info.fields = append(info.fields, fieldInfo{name: n.Name, jsonTagged: tagged})
			info.types[n.Name] = sf.typeName(field.Type)
		}
	}
	return info
}

// typeName renders a named type expression as a qualified name, pointers
// dropped; anything else is "".
func (sf *srcFile) typeName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return sf.pkg + "." + e.Name
	case *ast.SelectorExpr:
		if x, ok := e.X.(*ast.Ident); ok {
			if pkg, ok := sf.imports[x.Name]; ok {
				return pkg + "." + e.Sel.Name
			}
		}
	case *ast.StarExpr:
		return sf.typeName(e.X)
	case *ast.ParenExpr:
		return sf.typeName(e.X)
	}
	return ""
}

func (m *module) resolve(name string) string {
	for i := 0; i < 8; i++ { // an alias chain is short
		target, ok := m.aliases[name]
		if !ok {
			break
		}
		name = target
	}
	return name
}

// writes returns the set of "pkg.Type.Field" that some scanned file writes.
func (m *module) writes() map[string]bool {
	out := map[string]bool{}
	for _, sf := range m.files {
		if !sf.scanned {
			continue
		}
		for _, decl := range sf.ast.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if ok && fn.Body != nil {
				m.funcWrites(sf, fn, out)
				continue
			}
			// Package-level literals: var defaults = Config{...}.
			ast.Inspect(decl, func(n ast.Node) bool {
				if lit, ok := n.(*ast.CompositeLit); ok {
					m.litWrites(sf, lit, "", out)
				}
				return true
			})
		}
	}
	return out
}

// funcWrites records the writes in one function. Local variables get the
// type of their declaration, of the composite literal that initialises them,
// or of the parameter list; one scope per function.
func (m *module) funcWrites(sf *srcFile, fn *ast.FuncDecl, out map[string]bool) {
	own := "" // the type whose own defaulting this is
	locals := map[string]string{}
	bindFields := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			for _, n := range field.Names {
				locals[n.Name] = m.resolve(sf.typeName(field.Type))
			}
		}
	}
	if fn.Recv != nil {
		bindFields(fn.Recv)
		if fn.Name.Name == "withDefaults" {
			own = m.resolve(sf.typeName(fn.Recv.List[0].Type))
		}
	}
	var typeOf func(e ast.Expr) string
	typeOf = func(e ast.Expr) string {
		switch e := e.(type) {
		case *ast.Ident:
			return locals[e.Name]
		case *ast.ParenExpr:
			return typeOf(e.X)
		case *ast.StarExpr:
			return typeOf(e.X)
		case *ast.UnaryExpr:
			return typeOf(e.X)
		case *ast.CompositeLit:
			return m.resolve(sf.typeName(e.Type))
		case *ast.SelectorExpr:
			if s := m.structs[typeOf(e.X)]; s != nil {
				return m.resolve(s.types[e.Sel.Name])
			}
		}
		return ""
	}
	write := func(lhs ast.Expr) {
		if sel, ok := lhs.(*ast.SelectorExpr); ok {
			if typ := typeOf(sel.X); typ != "" && typ != own {
				out[typ+"."+sel.Sel.Name] = true
			}
		}
	}
	ast.Inspect(fn, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncType:
			bindFields(n.Params)
		case *ast.ValueSpec:
			for i, name := range n.Names {
				switch {
				case n.Type != nil:
					locals[name.Name] = m.resolve(sf.typeName(n.Type))
				case i < len(n.Values):
					locals[name.Name] = typeOf(n.Values[i])
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && n.Tok == token.DEFINE && len(n.Lhs) == len(n.Rhs) {
					locals[id.Name] = typeOf(n.Rhs[i])
				}
				write(lhs)
			}
		case *ast.IncDecStmt:
			write(n.X)
		case *ast.CompositeLit:
			m.litWrites(sf, n, own, out)
		}
		return true
	})
}

// litWrites records the keys of a keyed composite literal of a named type.
func (m *module) litWrites(sf *srcFile, lit *ast.CompositeLit, own string, out map[string]bool) {
	typ := m.resolve(sf.typeName(lit.Type))
	if typ == "" || typ == own {
		return
	}
	for _, e := range lit.Elts {
		if kv, ok := e.(*ast.KeyValueExpr); ok {
			if key, ok := kv.Key.(*ast.Ident); ok {
				out[typ+"."+key.Name] = true
			}
		}
	}
}
