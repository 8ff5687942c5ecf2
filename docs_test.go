package hswsim

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsNameExistingCommands: every cmd/<name> the current documents
// name, brace lists such as cmd/{a,b} included, is a directory under
// cmd/, so deleting a command cannot leave a doc line pointing at
// nothing. PAPER.md, CHANGES.md and ROADMAP.md are history — they
// record what once existed — and are not scanned.
func TestDocsNameExistingCommands(t *testing.T) {
	docs := []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}
	for _, pat := range []string{"docs/*.md", ".claude/skills/*/SKILL.md"} {
		m, err := filepath.Glob(pat)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, m...)
	}
	ref := regexp.MustCompile(`cmd/(\{[^}]*\}|[a-z0-9_-]+)`)
	for _, doc := range docs {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range ref.FindAllStringSubmatch(string(b), -1) {
			for _, name := range strings.Split(strings.Trim(m[1], "{}"), ",") {
				if fi, err := os.Stat(filepath.Join("cmd", name)); err != nil || !fi.IsDir() {
					t.Errorf("%s names cmd/%s, which does not exist", doc, name)
				}
			}
		}
	}
}
