package repro_test

import (
	"os"
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
