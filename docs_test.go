package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsReferenceExistingMakeTargets keeps the docs, the verify notes and CI
// honest about the Makefile: every `make <target>` they mention has a recipe,
// and so does every name in .PHONY.
func TestDocsReferenceExistingMakeTargets(t *testing.T) {
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^([a-z][a-z0-9-]*):`).FindAllSubmatch(makefile, -1) {
		targets[string(m[1])] = true
	}
	phony := regexp.MustCompile(`(?m)^\.PHONY:(.*)$`).FindSubmatch(makefile)
	if phony == nil {
		t.Fatal("Makefile has no .PHONY line")
	}
	for _, name := range strings.Fields(string(phony[1])) {
		if !targets[name] {
			t.Errorf(".PHONY names %q, which has no recipe", name)
		}
	}
	// A mention is `make x` in backticks, or a command: a line of a fenced
	// block or a CI run step. Bare prose ("what makes this possible") is not.
	quoted := regexp.MustCompile("`make ([a-z][a-z0-9-]*)")
	command := regexp.MustCompile(`(?:^|&& |run: )make ([a-z][a-z0-9-]*)`)
	for _, doc := range []string{"README.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md", ".github/workflows/ci.yml"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		fenced := strings.HasSuffix(doc, ".yml")
		for _, line := range strings.Split(string(text), "\n") {
			line = strings.TrimSpace(line)
			if strings.HasPrefix(line, "```") {
				fenced = !fenced
				continue
			}
			re := quoted
			if fenced {
				re = command
			}
			for _, m := range re.FindAllStringSubmatch(line, -1) {
				if !targets[m[1]] {
					t.Errorf("%s mentions `make %s`, which is not a Makefile target", doc, m[1])
				}
			}
		}
	}
}

// docPackages maps each package prose may cite as `pkg.Name` to its directory.
var docPackages = map[string]string{"repro": "."}

func init() {
	for _, pkg := range []string{
		"queuing", "core", "experiments", "markov", "linalg", "telemetry", "obs",
		"placesvc", "shardsvc", "sim", "cloud", "workload", "admission", "faults",
		"fitindex", "metrics", "cluster",
	} {
		docPackages[pkg] = filepath.Join("internal", pkg)
	}
}

// declaredNames returns the top-level names and method names declared in the
// non-test Go files of dir.
func declaredNames(t *testing.T, dir string) map[string]bool {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				names[d.Name.Name] = true
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						names[s.Name.Name] = true
					case *ast.ValueSpec:
						for _, n := range s.Names {
							names[n.Name] = true
						}
					}
				}
			}
		}
	}
	return names
}

// TestDocsReferenceExistingIdentifiers keeps the prose honest about the code:
// every `pkg.Name` cited inside an inline code span of the docs or the verify
// notes — pkg one of the module's packages, Name exported — must still be a
// top-level declaration or a method of that package. A deleted or renamed API
// then fails here instead of lingering in the docs.
func TestDocsReferenceExistingIdentifiers(t *testing.T) {
	declared := map[string]map[string]bool{}
	span := regexp.MustCompile("`[^`\n]+`")
	ref := regexp.MustCompile(`(?:^|[^\w./])([a-z]+)\.([A-Z]\w*)`)
	for _, doc := range []string{"README.md", "EXPERIMENTS.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		fenced := false
		for i, line := range strings.Split(string(text), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				fenced = !fenced
				continue
			}
			if fenced {
				continue
			}
			for _, code := range span.FindAllString(line, -1) {
				for _, m := range ref.FindAllStringSubmatch(code, -1) {
					dir, ok := docPackages[m[1]]
					if !ok {
						continue
					}
					if declared[m[1]] == nil {
						declared[m[1]] = declaredNames(t, dir)
					}
					if !declared[m[1]][m[2]] {
						t.Errorf("%s:%d cites `%s.%s`, which package %s does not declare", doc, i+1, m[1], m[2], m[1])
					}
				}
			}
		}
	}
}
