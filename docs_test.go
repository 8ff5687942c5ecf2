package hswsim

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// currentDocs returns the documents that describe the code as it is.
// PAPER.md, CHANGES.md and ROADMAP.md are history — they record what
// once existed — and are not scanned.
func currentDocs(t *testing.T) map[string]string {
	t.Helper()
	names := []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}
	for _, pat := range []string{"docs/*.md", ".claude/skills/*/SKILL.md"} {
		m, err := filepath.Glob(pat)
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, m...)
	}
	docs := map[string]string{}
	for _, name := range names {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		docs[name] = string(b)
	}
	return docs
}

// TestDocsNameExistingCommands: every cmd/<name> the current documents
// name, brace lists such as cmd/{a,b} included, is a directory under
// cmd/, so deleting a command cannot leave a doc line pointing at
// nothing.
func TestDocsNameExistingCommands(t *testing.T) {
	ref := regexp.MustCompile(`cmd/(\{[^}]*\}|[a-z0-9_-]+)`)
	for doc, text := range currentDocs(t) {
		for _, m := range ref.FindAllStringSubmatch(text, -1) {
			for _, name := range strings.Split(strings.Trim(m[1], "{}"), ",") {
				if fi, err := os.Stat(filepath.Join("cmd", name)); err != nil || !fi.IsDir() {
					t.Errorf("%s names cmd/%s, which does not exist", doc, name)
				}
			}
		}
	}
}

// TestDocsNameRegisteredMetrics: every backquoted counter (`*_total`)
// or wall-time histogram (`*_wall_ns`) the current documents name is
// registered in obs.Default(), so deleting a metric cannot leave a doc
// pointing readers at a series that no longer exists. The registered
// names are read from package obs's source, where every default-registry
// metric is declared (std is the registry obs.Default returns); a
// snapshot would miss a labelled family that has no member yet.
func TestDocsNameRegisteredMetrics(t *testing.T) {
	srcs, err := filepath.Glob("internal/obs/*.go")
	if err != nil {
		t.Fatal(err)
	}
	decl := regexp.MustCompile(`std\.(?:Counter|Gauge|Histogram|CounterVec)\(\s*"([a-z0-9_]+)"`)
	registered := map[string]bool{}
	for _, src := range srcs {
		if strings.HasSuffix(src, "_test.go") {
			continue
		}
		b, err := os.ReadFile(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range decl.FindAllStringSubmatch(string(b), -1) {
			registered[m[1]] = true
		}
	}
	if !registered["sched_slot_acquires_total"] {
		t.Fatalf("found no default-registry declarations in %v", srcs)
	}
	ref := regexp.MustCompile("`([a-z0-9_]+(?:_total|_wall_ns))`")
	for doc, text := range currentDocs(t) {
		for _, m := range ref.FindAllStringSubmatch(text, -1) {
			if !registered[m[1]] {
				t.Errorf("%s names `%s`, which obs.Default() does not register", doc, m[1])
			}
		}
	}
}
